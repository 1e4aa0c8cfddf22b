"""Numerical verification of predicted periodic orbits.

Everything here treats the vector field as ground truth and checks the
asymptotic predictions against it: single shooting with variational equations
(an inexact Newton iteration whose seed solve runs at the square root of the
tolerance; the monodromy comes from the converged solve, with a Liouville
trace quadrature as an internal consistency check; each stage of the
variational equations is one call of the model's linearisation on Python
floats, `models.linearization_fn`; the variational block is error
controlled on the scale of the identity it starts from, `VARIATIONAL_SCALE`,
unless the converged solve's Liouville check reads above
`SCALED_LIOUVILLE_TOL`),
Floquet stability, natural continuation in the parameter, and integration of
the truncated reduced dynamics against the full flow.  `integrate` returns the
solver's own `dop853.Solution`.
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
#: closure tolerance of one-off orbit solves
ORBIT_NEWTON_TOL = 1e-11
#: integrator tolerance for continuation sweeps
SWEEP_RTOL = 1e-9
#: integrator tolerance of the truncated-dynamics runs and their full-flow comparison
PROBE_RTOL = 1e-10
#: Newton budget of one shooting solve
SHOOTING_MAX_ITER = 25
#: shooting iterates must stay within this many seed amplitudes of the seed
DRIFT_FACTOR = 3.0
#: closure tolerance of each continuation point
BRANCH_NEWTON_TOL = 1e-10
#: Floquet moduli must clear the unit circle by this margin for a verdict
FLOQUET_MARGIN = 1e-6
#: the variational block starts at this power of two times the identity, so
#: the error control resolves Phi to 1.28 rtol of the identity, not to the
#: state's absolute tolerance wherever an entry of Phi crosses 0
VARIATIONAL_SCALE = 2.0**-7
#: a converged solve of the scaled block whose Liouville defect reads above
#: this is solved again with Phi from the identity: its moduli can be off by a
#: few times the defect, too far to back a verdict at `FLOQUET_MARGIN`
SCALED_LIOUVILLE_TOL = 1e-7


def integrate(
    model: ModelDefinition,
    mu: float,
    x0: Sequence[float],
    t_span: tuple[float, float],
    rtol: float = SWEEP_RTOL,
) -> dop853.Solution:
    """Integrate the model forward over ``t_span`` with `dop853`: the solver's
    step times ``t``, states ``y`` (a column per time) and interpolant ``sol``."""
    return dop853.solve(lambda t, X: model.rhs(X, mu), t_span, x0, rtol)


@dataclasses.dataclass(frozen=True)
class ShootingSeed:
    """Starting guess for single shooting: a point, a period, a positive, finite size.

    A `PredictedOrbit` carries the same three fields and seeds shooting too.
    """

    anchor: np.ndarray
    period: float
    scale: float


@dataclasses.dataclass(frozen=True)
class PeriodicOrbit:
    """A converged periodic solution with its monodromy data.

    ``residual`` is the closure error |Phi_T(x) - x| of the returned orbit;
    ``liouville_defect`` compares det(monodromy) to the exponential of the
    integrated divergence and measures variational-solve quality.
    ``newton`` is the (rtol, max |closure residual|) of every variational
    solve of the shooting in order, backtracking trials included; a solve
    that failed reads nan.
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
    newton: tuple[tuple[float, float], ...]


def _radius(states: np.ndarray) -> float:
    """Largest distance of the states sampled at ``np.linspace(0, T, n)`` over
    one period from their centroid.  The last sample repeats the first, so
    the centroid leaves it out: counted twice, the anchor would pull the
    centroid toward itself and make the radius depend on where it sits."""
    centroid = np.ascontiguousarray(states[: max(len(states) - 1, 1)].T).mean(axis=1)
    return float(np.max(np.linalg.norm(states - centroid, axis=1)))


def _flow_with_monodromy(
    model: ModelDefinition,
    mu: float,
    x0: np.ndarray,
    T: float,
    rtol: float,
    scale: float = VARIATIONAL_SCALE,
):
    """Integrate state, variational matrix, and divergence quadrature,
    with the dense interpolant of all three.  Each stage is one call of
    `models.linearization_fn` on Python floats, returning a list of 13: entry
    (i, j) of J Phi is ``J[i][0] Phi[0][j] + J[i][1] Phi[1][j] + J[i][2] Phi[2][j]``
    summed left to right, and the divergence ``J[0][0] + J[1][1] + J[2][2]``.

    The block starts at ``scale`` (a power of two, `VARIATIONAL_SCALE` unless
    given) times the identity, so the solver's absolute tolerance, rtol / 100
    and sized for the state, acts on Phi as rtol / (100 ``scale``) in units
    of the identity.  The RHS is linear in Phi, so every product and sum in
    the block scales exactly and dividing the final block by the scale gives
    the monodromy bit for bit; only the step sequence differs from a block
    started at the identity.  The interpolant's rows 3-11 hold the scaled
    block; only rows 0-2, the state, are read."""
    linearize = models.linearization_fn(model)

    def rhs(t: float, Y: np.ndarray) -> list[float]:
        x1, x2, x3, a, b, c, d, e, f, g, h, i, _ = Y.tolist()
        F, ((j11, j12, j13), (j21, j22, j23), (j31, j32, j33)) = linearize(x1, x2, x3, mu)
        return [
            *F,
            j11 * a + j12 * d + j13 * g, j11 * b + j12 * e + j13 * h, j11 * c + j12 * f + j13 * i,
            j21 * a + j22 * d + j23 * g, j21 * b + j22 * e + j23 * h, j21 * c + j22 * f + j23 * i,
            j31 * a + j32 * d + j33 * g, j31 * b + j32 * e + j33 * h, j31 * c + j32 * f + j33 * i,
            j11 + j22 + j33,
        ]

    Y0 = np.concatenate([x0, scale * np.eye(3).ravel(), [0.0]])
    sol = dop853.solve(rhs, (0.0, T), Y0, rtol)
    YT = sol.y[:, -1]
    return YT[:3], YT[3:12].reshape(3, 3) / scale, YT[12], sol.sol


def _liouville_defect(monodromy: np.ndarray, trace_int: float) -> float:
    """Relative gap between det(monodromy) and exp of the integrated divergence."""
    det = float(np.linalg.det(monodromy))
    expected = math.exp(trace_int)
    return abs(det - expected) / max(abs(det), abs(expected), 1e-300)


def find_periodic_orbit(
    model: ModelDefinition,
    mu: float,
    seed: ShootingSeed | PredictedOrbit,
    rtol: float = ORBIT_RTOL,
    newton_tol: float = ORBIT_NEWTON_TOL,
    guard: Callable[[np.ndarray], bool] | None = None,
    n_samples: int = 256,
) -> PeriodicOrbit:
    """Newton shooting for a periodic orbit near a seed (a `ShootingSeed`, or
    a `PredictedOrbit` made with a frame).

    The phase condition pins the solution to the plane through the seed anchor
    orthogonal to the flow there.  The solve is deliberately local: an iterate
    more than `DRIFT_FACTOR` times the seed's positive, finite ``scale`` from
    the seed, with a period outside [0.2, 5] times the seed period, or failing
    the caller's ``guard`` raises `NoConvergence` instead of landing on a
    distant attractor.

    An inexact Newton iteration: the seed's variational solve runs at
    sqrt(``rtol``), since its residual only aims the first step.  Every
    Newton trial is one variational solve at ``rtol``, reused as the next
    iterate when accepted; a trial whose solve fails (`NonFinite`,
    `StepFailure`) is rejected and halved.  Only a solve at ``rtol`` can end
    the iteration, so a seed whose residual reads below ``newton_tol``, or
    below what its loose solve resolves, takes its full step, solved at
    ``rtol``.  Every solve error-controls the variational block on the scale
    of the identity (`VARIATIONAL_SCALE`); a converged solve whose Liouville
    check reads above `SCALED_LIOUVILLE_TOL` is the one point integrated
    twice: it is solved again with Phi from the identity, as is every later
    trial, and the iteration goes on from that solve.  The residual,
    monodromy, multipliers, Liouville check and `states` all come from the
    last solve.
    """
    if not (math.isfinite(mu) and n_samples >= 1 and rtol > 0 and newton_tol > 0):
        raise InvalidBounds(
            "shooting needs a finite mu, n_samples >= 1 and positive tolerances, got "
            f"mu={mu}, n_samples={n_samples}, rtol={rtol}, newton_tol={newton_tol}"
        )
    if not 0.0 < seed.scale < math.inf:
        raise InvalidBounds(f"shooting needs a positive, finite seed scale, got {seed.scale}")
    if seed.anchor is None:
        raise NoConvergence(
            "orbit prediction has no anchor; predict with a frame to seed shooting"
        )
    x = np.asarray(seed.anchor, dtype=float).copy()
    T = float(seed.period)
    if T <= 0:
        raise NoConvergence("seed period must be positive")
    T0 = T
    drift_cap = DRIFT_FACTOR * seed.scale

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
        if guard is not None and not guard(P):
            raise NoConvergence("shooting iterate violated the interior guard")

    def closure(P: np.ndarray, PT: np.ndarray) -> np.ndarray:
        return np.append(PT - P, normal @ (P - anchor0))

    check_iterate(x, T)
    # the seed's solve only aims the first step, so it runs at sqrt(rtol);
    # every trial runs at rtol, so only a trial's solve can end the iteration
    iterate_rtol = math.sqrt(rtol)
    variational_scale = VARIATIONAL_SCALE
    xT, monodromy, trace_int, dense = _flow_with_monodromy(model, mu, x, T, iterate_rtol)
    newton = [(iterate_rtol, float(np.max(np.abs(closure(x, xT)))))]
    for _ in range(SHOOTING_MAX_ITER):
        R = closure(x, xT)
        res_norm = float(np.max(np.abs(R)))
        if res_norm < newton_tol and iterate_rtol == rtol:
            liouville = _liouville_defect(monodromy, trace_int)
            if liouville <= SCALED_LIOUVILLE_TOL or variational_scale == 1.0:
                break
            # this monodromy would back the Floquet verdict, and the scaled
            # block's error control leaves it off by a few times its defect
            variational_scale = 1.0
            xT, monodromy, trace_int, dense = _flow_with_monodromy(model, mu, x, T, rtol, 1.0)
            newton.append((rtol, float(np.max(np.abs(closure(x, xT))))))
            continue
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

        # backtracking on the closure residual; a seed solve's residual below
        # newton_tol or below its own tolerance at the anchor, atol + rtol |x|
        # at sqrt(rtol), is its integration error and cannot judge a step:
        # that step is taken in full
        resolution = iterate_rtol * (dop853.ATOL_PER_RTOL + float(np.max(np.abs(x))))
        if iterate_rtol != rtol and res_norm < max(newton_tol, resolution):
            base = math.inf
        else:
            base = float(np.linalg.norm(R))
        scale = 1.0
        for _halving in range(8):
            x_new = x + scale * delta[:3]
            T_new = T + scale * delta[3]
            try:
                check_iterate(x_new, T_new)
            except NumericalFailure:
                scale *= 0.5
                continue
            try:
                trial = _flow_with_monodromy(model, mu, x_new, T_new, rtol, variational_scale)
            except NumericalFailure:
                newton.append((rtol, math.nan))
                scale *= 0.5
                continue
            R_new = closure(x_new, trial[0])
            newton.append((rtol, float(np.max(np.abs(R_new)))))
            if float(np.linalg.norm(R_new)) < base or scale <= 1.0 / 64.0:
                x, T, iterate_rtol = x_new, T_new, rtol
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
        newton=tuple(newton),
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
    dense = integrate(model, mu, x, (0.0, 300.0)).sol
    ts = np.linspace(0.0, 300.0, 20000)
    g = (dense(ts).T - x) @ normal
    i = np.flatnonzero((g[:-1] < 0.0) & (g[1:] >= 0.0))
    # linear refinement of the upward crossing times
    frac = -g[i] / (g[i + 1] - g[i])
    crossings = ts[i] + frac * (ts[i + 1] - ts[i])
    if len(crossings) < 3:
        raise NoConvergence("no recurrent crossings; trajectory is not cycling")
    gaps = np.diff(crossings)
    period = float(np.median(gaps[-5:]))
    anchor = np.asarray(dense(crossings[-1]))
    loop = integrate(model, mu, anchor, (0.0, period)).sol(np.linspace(0.0, period, 400))
    return ShootingSeed(anchor=anchor, period=period, scale=_radius(loop.T))


def _extrapolate(
    nodes: Sequence[tuple[float, np.ndarray, float]], s: float
) -> tuple[np.ndarray, float]:
    """Anchor and period at ``s`` of the Lagrange polynomial through the
    nodes (s_i, anchor_i, period_i); one node gives its own values back."""
    anchor, period = 0.0, 0.0
    for i, (s_i, anchor_i, period_i) in enumerate(nodes):
        weight = math.prod(
            (s - s_j) / (s_i - s_j) for j, (s_j, _, _) in enumerate(nodes) if j != i
        )
        anchor = anchor + weight * anchor_i
        period += weight * period_i
    return anchor, period


def continue_branch(
    model: ModelDefinition,
    mu_values: Iterable[float],
    coeffs: CylindricalCoefficients | None = None,
    frame: StandardFrame | None = None,
    seed_state: Sequence[float] | None = None,
    settle_time: float = 1500.0,
    guard: Callable[[np.ndarray], bool] | None = None,
    n_samples: int = 256,
) -> Branch:
    """Natural continuation of the orbit branch over a mu grid.

    Given a ``seed_state``, the first point is seeded by settling the
    trajectory from it for ``settle_time`` onto the attractor and measuring its
    recurrence; without one, by the asymptotic prediction, which needs
    ``coeffs`` and ``frame`` (`InvalidBounds` when either is missing).  Later
    points are seeded by extrapolating anchor and period in s = sqrt|mu|, in
    which the branch is smooth (amplitude ~ s): the Lagrange polynomial through
    the last four of the Hopf point (s = 0, ``frame.origin``, period 2 pi /
    ``frame.omega``; only when a frame is given) and the converged orbits.
    Without a frame the second point reuses the first orbit.  Shooting runs
    at `SWEEP_RTOL` and `BRANCH_NEWTON_TOL` (its seed solve at the square
    root of `SWEEP_RTOL`, see `find_periodic_orbit`); every other
    integration uses `SWEEP_RTOL`.

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

    if seed_state is not None:
        settled = integrate(model, grid[0], seed_state, (0.0, settle_time))
        seed: ShootingSeed | PredictedOrbit = _detect_cycle(model, grid[0], settled.y[:, -1])
    elif coeffs is None or frame is None:
        raise InvalidBounds("seeding needs a seed_state, or coefficients and a frame")
    else:
        seed = predict_orbit(coeffs, grid[0], frame)

    points: list[BranchPoint] = []
    lost_at: float | None = None
    # (s, anchor, period) with s = sqrt|mu|; the Hopf point is the branch's s = 0 end
    nodes = [] if frame is None else [(0.0, frame.origin, 2.0 * math.pi / frame.omega)]
    for mu in grid:
        s = math.sqrt(abs(mu))
        if points:
            anchor, period = _extrapolate(nodes[-4:], s)
            seed = ShootingSeed(
                anchor=anchor, period=period, scale=max(points[-1].amplitude, 1e-6)
            )
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
        nodes.append((s, orbit.anchor, orbit.period))

    return Branch(points=tuple(points), lost_at=lost_at, fit=_fit_amplitudes(points))


# ---------------------------------------------------------------------------
# truncated reduced dynamics
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class TruncatedRun:
    """Trajectory of the truncated reduced dynamics in slow time.  ``r0`` is
    the first-order equilibrium radius sqrt(-mu_tilde gamma5 / beta5), None
    where that radicand is not positive."""

    epsilon: float
    mu_tilde: float
    tau: np.ndarray
    r: np.ndarray
    z: np.ndarray
    r0: float | None


def _truncated_rhs(
    coeffs: CylindricalCoefficients, epsilon: float, mu_tilde: float
) -> Callable[[float, np.ndarray], list[float]]:
    b1, b2, b3 = coeffs.beta1, coeffs.beta2, coeffs.beta3
    b4, b5, b6 = coeffs.beta4, coeffs.beta5, coeffs.beta6
    g5, g7 = coeffs.gamma5, coeffs.gamma7
    omega = coeffs.omega
    e, e2 = epsilon, epsilon * epsilon

    def rhs(tau: float, y: np.ndarray) -> list[float]:
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
        return [dr, dz]

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

    ratio = -mu_tilde * coeffs.gamma5 / coeffs.beta5
    return TruncatedRun(
        epsilon=epsilon,
        mu_tilde=mu_tilde,
        tau=taus,
        r=vals[0],
        z=vals[1],
        r0=math.sqrt(ratio) if ratio > 0 else None,
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
    dense = integrate(model, mu, X0, (0.0, t_final), PROBE_RTOL).sol
    coords = frame.to_frame(dense(np.linspace(0.0, t_final, 6000)).T, mu)
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
