"""Numerical verification of predicted periodic orbits.

Everything here treats the vector field as ground truth and checks the
asymptotic predictions against it: Fourier collocation of the whole orbit
(`collocate`), then one variational solve from its anchor whose closure,
monodromy and Liouville trace quadrature make the orbit an integration
result, with Newton shooting from that solve where it falls short (each
stage, and each collocation sample, is one call of the model's
linearisation on Python floats, `models.linearization_fn`; the variational
block is error controlled on the scale of the identity it starts from,
`VARIATIONAL_SCALE`, unless a converged solve's Liouville check reads above
`SCALED_LIOUVILLE_TOL`), Floquet stability, natural continuation in the
parameter, and integration of the truncated reduced dynamics against the
full flow.  `integrate` returns the solver's own `dop853.Solution`.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from typing import Callable, Iterable, Sequence

import numpy as np

from . import dop853, models
from .classifier import ORBIT_SAMPLES, PredictedOrbit, predict_orbit
from .coefficients import CylindricalCoefficients
from .errors import (
    InvalidBounds,
    LeftDomain,
    NoConvergence,
    NonFinite,
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
#: Newton budget of one shooting solve, and of one collocation over all its N
SHOOTING_MAX_ITER = 25
#: shooting iterates and collocation samples must stay within this many seed amplitudes of the seed
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
#: collocation ends where max |D X - (T / 2 pi) F| reads this fraction of max |(T / 2 pi) F|
COLLOCATION_TOL = 1e-11
#: a collocated loop whose top eighth of harmonics reads above this fraction
#: of its first is resampled at about 3/2 its N (odd), up to `COLLOCATION_MAX_N`
COLLOCATION_TAIL = 1e-9
COLLOCATION_MAX_N = 135


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
    """Starting guess for an orbit: a point, a period, a positive, finite
    size, and optionally the loop's odd number of equispaced ``samples``
    (N, 3) from the point on; `collocate` samples a seed without them from
    one plain integration.  A `PredictedOrbit` carries the same fields.
    """

    anchor: np.ndarray
    period: float
    scale: float
    samples: np.ndarray | None = None


@dataclasses.dataclass(frozen=True)
class Collocation:
    """A collocated loop: ``samples`` (N, 3) at t_j = j T / N, its ``period``
    T, its Newton ``steps``, its final ``residual`` max |D X - (T / 2 pi) F|
    and phase residual, and its spectral ``tail``, the largest of its top
    eighth of harmonics over its first."""

    samples: np.ndarray
    period: float
    steps: int
    residual: float
    tail: float


@dataclasses.dataclass(frozen=True)
class PeriodicOrbit:
    """A converged periodic solution with its monodromy data.

    ``residual`` is the closure error |Phi_T(x) - x| of the returned orbit;
    ``liouville_defect`` compares det(monodromy) to the exponential of the
    integrated divergence and measures variational-solve quality.
    ``newton`` is the (rtol, max |closure residual|) of every variational
    solve of the shooting in order, backtracking trials included; a solve
    that failed reads nan.  ``collocation`` is the loop the first solve
    started from; ``flow(t)`` reads the last solve's interpolant of the state.
    `times` and `states` read ``flow`` at ``n_samples`` times over the period,
    the last repeating the first, on first access: only then does the solve
    build the interpolant of every step.
    """

    mu: float
    anchor: np.ndarray
    period: float
    monodromy: np.ndarray
    multipliers: tuple[complex, complex, complex]
    residual: float
    liouville_defect: float
    newton: tuple[tuple[float, float], ...]
    collocation: Collocation
    n_samples: int
    flow: Callable[[np.ndarray], np.ndarray] = dataclasses.field(repr=False, compare=False)

    @functools.cached_property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.period, self.n_samples)

    @functools.cached_property
    def states(self) -> np.ndarray:
        return self.flow(self.times).T

    def peak(self, value: Callable[[np.ndarray], np.ndarray]) -> float:
        """The largest ``value`` (states (..., 3) to values (...)) on `flow`:
        bracketed at the largest on the collocated loop (N samples at j T / N
        from the anchor) by that time and its neighbours' read on `flow`,
        then refined by steps to the vertex of the parabola through the
        three, twice, each through three times spaced 32 times closer."""
        values = value(self.collocation.samples).tolist()
        n = len(values)
        k = max(range(n), key=values.__getitem__)
        t, h, best = k * self.period / n, self.period / n, -math.inf
        a, b, c = value(self.flow((t + np.array([-h, 0.0, h])) % self.period).T).tolist()
        for step in range(3):
            best = max(best, a, b, c)
            if step == 2 or not a - 2.0 * b + c < 0.0:
                break
            t, h = t + 0.5 * h * (a - c) / (a - 2.0 * b + c), h / 32.0
            a, b, c = value(self.flow((t + np.array([-h, 0.0, h])) % self.period).T).tolist()
        return best


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


def _trust_region(model: ModelDefinition, mu: float, seed, guard) -> tuple:
    """The seed's anchor, the unit flow there (which pin the phase), and
    ``check(states, reference, T, what)``, raising `NoConvergence` for a
    state over `DRIFT_FACTOR` seed scales from its reference, a period
    outside [0.2, 5] seed periods, or a state failing ``guard``."""
    if not 0.0 < seed.scale < math.inf:
        raise InvalidBounds(f"shooting needs a positive, finite seed scale, got {seed.scale}")
    if seed.anchor is None:
        raise NoConvergence("orbit prediction has no anchor; predict with a frame to seed shooting")
    anchor, T0, drift_cap = np.array(seed.anchor, dtype=float), seed.period, DRIFT_FACTOR * seed.scale
    if T0 <= 0:
        raise NoConvergence("seed period must be positive")
    F0 = models.evaluate(model, anchor, mu)
    speed = float(np.linalg.norm(F0))
    if speed < 1e-14:
        raise NoConvergence("seed anchor is an equilibrium; no phase direction")

    def check(states: np.ndarray, reference: np.ndarray, T: float, what: str) -> None:
        states = np.atleast_2d(states)
        if not float(np.max(np.linalg.norm(states - reference, axis=-1))) <= drift_cap:
            raise NoConvergence(f"{what} drifted beyond the trust radius {drift_cap:.3g}")
        if not (0.2 * T0 <= T <= 5.0 * T0):
            raise NoConvergence(f"{what} period left the trust window ({T:.3g})")
        if guard is not None and not all(guard(X) for X in states):
            raise NoConvergence(f"{what} violated the interior guard")

    return anchor, F0 / speed, check


def _newton_step(A: np.ndarray, R: np.ndarray, what: str) -> np.ndarray:
    """-A^{-1} R; a singular A or a non-finite step is `SingularShooting`."""
    try:
        delta = np.linalg.solve(A, -R)
    except np.linalg.LinAlgError as exc:
        raise SingularShooting(f"{what} matrix is singular: {exc}") from exc
    if not np.all(np.isfinite(delta)):
        raise SingularShooting(f"{what} step is non-finite")
    return delta


def _backtrack(trial: Callable[[float], tuple], base: float, what: str):
    """The result of ``trial(scale)``, which returns (residual norm, result),
    at the first of the steps 1, 1/2, ..., 1/128 whose norm reads below
    ``base``, or at 1/64; a trial raising `NumericalFailure` is halved."""
    scale, failure = 1.0, ""
    for _halving in range(8):
        try:
            norm, result = trial(scale)
            if norm < base or scale <= 1.0 / 64.0:
                return result
        except NumericalFailure as exc:
            failure = f" (last failed trial: {exc})"
        scale *= 0.5
    raise NoConvergence(f"{what} stalled: no residual decrease{failure}")


@functools.lru_cache(maxsize=None)
def _spectral_derivative(n: int) -> tuple[np.ndarray, tuple]:
    """Read-only D_jk = (-1)^(j-k) / (2 sin((j - k) pi / n)), 0 for j = k: the
    derivative in theta on n equispaced samples, n odd (Trefethen 2000, ch. 3);
    and the index of entry (a, b) of sample j's block, (a n + j, b n + j)."""
    k = np.arange(n)
    column = np.append(0.0, 0.5 * (-1.0) ** k[1:] / np.sin(k[1:] * (math.pi / n)))
    D = column[np.subtract.outer(k, k) % n]
    D.flags.writeable = False
    a, b, j = np.ogrid[:3, :3, :n]
    return D, (a * n + j, b * n + j)


def _resample(samples: np.ndarray, n: int) -> np.ndarray:
    """An odd number N of equispaced periodic samples read at n >= N points
    of their trigonometric interpolant, the Fourier series zero-padded."""
    m = len(samples)
    return samples if n == m else np.fft.irfft(np.fft.rfft(samples, axis=0), n, axis=0) * (n / m)


def collocate(
    model: ModelDefinition,
    mu: float,
    seed: ShootingSeed | PredictedOrbit,
    guard: Callable[[np.ndarray], bool] | None = None,
) -> Collocation:
    """The orbit near a seed by Fourier collocation (Doedel, Keller & Kernévez,
    IJBC 1991; Trefethen 2000, ch. 3): Newton, backtracking as shooting does,
    on N samples X_j = x(j T / N) and T for D X = (T / 2 pi) F(X), D the
    spectral derivative in 2 pi t / T, with shooting's phase condition; one
    `np.linalg.solve` a step.  It starts from the seed's ``samples`` or one
    plain integration read at `ORBIT_SAMPLES` times, and a loop that
    converges with a tail above `COLLOCATION_TAIL` is resampled.  Every
    iterate must keep `find_periodic_orbit`'s drift cap and period window,
    and the converged loop ``guard``; else `NoConvergence` ends the search."""
    anchor, normal, check = _trust_region(model, mu, seed, None)
    T = float(seed.period)
    if seed.samples is None:  # a trajectory 10 drift caps out is running away
        cap = 10.0 * DRIFT_FACTOR * seed.scale
        flow = dop853.solve(lambda t, Y: model.rhs(Y, mu), (0.0, T), anchor, SWEEP_RTOL,
                            lambda t, Y: cap - float(np.linalg.norm(Y - anchor)))
        if flow.event_fired:
            raise NoConvergence(f"seed trajectory drifted beyond the trust radius {cap:.3g}")
        X = flow.sol(np.arange(ORBIT_SAMPLES) * (T / ORBIT_SAMPLES)).T
    else:
        X = np.asarray(seed.samples, dtype=float)
        if X.ndim != 2 or X.shape[1] != 3 or len(X) % 2 == 0:
            raise InvalidBounds(f"seed samples must be (N, 3) with N odd, got {X.shape}")
    reference, linearize = X, models.linearization_fn(model)

    def residual(X: np.ndarray, T: float) -> tuple:
        J = np.array([(*F, *a, *b, *c) for F, (a, b, c) in (linearize(*x, mu) for x in X.tolist())])
        F, DF = J[:, :3], J[:, 3:].reshape(-1, 3, 3)
        if not np.isfinite(J).all():
            raise NonFinite(f"model '{model.name}' is not finite on the collocated loop, mu={mu}")
        # D annihilates constants, so X - X_0 leaves its rounding on the loop's size
        R = (_spectral_derivative(len(X))[0] @ (X - X[0]) - (T / (2.0 * math.pi)) * F).T
        R = np.append(R, normal @ (X[0] - anchor))
        return float(np.linalg.norm(R)), (X, T, F, DF, R)

    X, T, F, DF, R = residual(X, T)[1]
    steps = 0
    while True:
        n = len(X)
        if np.max(np.abs(R)) <= COLLOCATION_TOL * (T / (2.0 * math.pi)) * np.max(np.abs(F)):
            h = np.linalg.norm(np.fft.rfft(X, axis=0), axis=1)
            tail = float(np.max(h[-math.ceil((n // 2) / 8) :])) / h[1] if h[1] else math.inf
            if tail > COLLOCATION_TAIL and n + 2 * (n // 4) <= COLLOCATION_MAX_N:
                X, reference = _resample(X, n + 2 * (n // 4)), _resample(reference, n + 2 * (n // 4))
                X, T, F, DF, R = residual(X, T)[1]
                continue
            if guard is not None and not all(guard(x) for x in X):
                raise NoConvergence("collocated loop violated the interior guard")
            return Collocation(X, T, steps, float(np.max(np.abs(R))), tail)
        if steps == SHOOTING_MAX_ITER:
            raise NoConvergence(f"collocation did not converge in {steps} steps")
        D, blocks = _spectral_derivative(n)
        A = np.zeros((3 * n + 1, 3 * n + 1))
        for c in range(3):
            A[c * n : (c + 1) * n, c * n : (c + 1) * n] = D
        A[blocks] -= (T / (2.0 * math.pi)) * DF.transpose(1, 2, 0)
        A[: 3 * n, 3 * n] = F.T.ravel() / (-2.0 * math.pi)
        A[3 * n, : 3 * n : n] = normal
        delta, steps = _newton_step(A, R, "collocation"), steps + 1

        def trial(scale: float) -> tuple:
            X_new, T_new = X + scale * delta[:-1].reshape(3, n).T, T + scale * float(delta[-1])
            check(X_new, reference, T_new, "collocation sample")
            return residual(X_new, T_new)

        X, T, F, DF, R = _backtrack(trial, float(np.linalg.norm(R)), "collocation")


def find_periodic_orbit(
    model: ModelDefinition,
    mu: float,
    seed: ShootingSeed | PredictedOrbit,
    rtol: float = ORBIT_RTOL,
    newton_tol: float = ORBIT_NEWTON_TOL,
    guard: Callable[[np.ndarray], bool] | None = None,
    n_samples: int = 256,
) -> PeriodicOrbit:
    """The periodic orbit near a seed (a `ShootingSeed`, or a `PredictedOrbit`
    made with a frame): `collocate` (from one plain integration where the
    seed's samples fail), then one variational solve at ``rtol`` from the
    collocated anchor, the orbit when it closes below ``newton_tol`` and its
    Liouville check passes.  Else Newton shooting goes on from it, in the
    phase plane through the seed anchor orthogonal to the flow; a trial more
    than `DRIFT_FACTOR` seed scales from that anchor, with a period outside
    [0.2, 5] seed periods, failing ``guard`` or whose solve fails is halved.
    A converged solve whose Liouville check reads above `SCALED_LIOUVILLE_TOL`
    is redone with Phi from the identity, as is every later trial.  The
    residual, monodromy, multipliers and `flow` are the last solve's, and so
    are the ``n_samples`` `states`, read from `flow` on first access only.
    """
    if not (math.isfinite(mu) and n_samples >= 1 and rtol > 0 and newton_tol > 0):
        raise InvalidBounds(
            "shooting needs a finite mu, n_samples >= 1 and positive tolerances, got "
            f"mu={mu}, n_samples={n_samples}, rtol={rtol}, newton_tol={newton_tol}"
        )
    try:
        loop = collocate(model, mu, seed, guard)
    except NoConvergence:
        if seed.samples is None:
            raise
        loop = collocate(model, mu, dataclasses.replace(seed, samples=None), guard)
    anchor0, normal, check = _trust_region(model, mu, seed, guard)

    def closure(P: np.ndarray, PT: np.ndarray) -> np.ndarray:
        return np.append(PT - P, normal @ (P - anchor0))

    x, T = loop.samples[0].copy(), loop.period
    variational_scale = VARIATIONAL_SCALE
    xT, monodromy, trace_int, dense = _flow_with_monodromy(model, mu, x, T, rtol)
    newton = [(rtol, float(np.max(np.abs(closure(x, xT)))))]
    for _ in range(SHOOTING_MAX_ITER):
        R = closure(x, xT)
        if float(np.max(np.abs(R))) < newton_tol:
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
        delta = _newton_step(A, R, "shooting")

        def trial(scale: float) -> tuple:
            x_new, T_new = x + scale * delta[:3], T + scale * delta[3]
            check(x_new, anchor0, T_new, "shooting iterate")
            try:
                solve = _flow_with_monodromy(model, mu, x_new, T_new, rtol, variational_scale)
            except NumericalFailure:
                newton.append((rtol, math.nan))
                raise
            R_new = closure(x_new, solve[0])
            newton.append((rtol, float(np.max(np.abs(R_new)))))
            return float(np.linalg.norm(R_new)), (x_new, T_new, *solve)

        x, T, xT, monodromy, trace_int, dense = _backtrack(trial, float(np.linalg.norm(R)), "shooting")
    else:
        raise NoConvergence(
            f"shooting did not reach tolerance in {SHOOTING_MAX_ITER} iterations "
            f"(residual {float(np.max(np.abs(R))):.2e})"
        )

    residual = float(np.max(np.abs(xT - x)))
    multipliers = tuple(sorted(np.linalg.eigvals(monodromy), key=lambda z: -abs(z)))
    return PeriodicOrbit(
        mu=mu,
        anchor=x,
        period=T,
        monodromy=monodromy,
        multipliers=multipliers,  # type: ignore[arg-type]
        residual=residual,
        liouville_defect=liouville,
        newton=tuple(newton),
        collocation=loop,
        n_samples=n_samples,
        flow=lambda t: dense(t)[:3],
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


def _extrapolate(
    nodes: Sequence[tuple[float, np.ndarray, float]], s: float
) -> tuple[np.ndarray, float]:
    """Samples and period at ``s`` of the Lagrange polynomial through the
    nodes (s_i, samples_i, period_i), samples `_resample`d to the largest N;
    one node gives its own values back."""
    n = max(len(samples_i) for _, samples_i, _ in nodes)
    samples, period = 0.0, 0.0
    for i, (s_i, samples_i, period_i) in enumerate(nodes):
        weight = math.prod(
            (s - s_j) / (s_i - s_j) for j, (s_j, _, _) in enumerate(nodes) if j != i
        )
        samples = samples + weight * _resample(samples_i, n)
        period += weight * period_i
    return samples, period


def continue_branch(
    model: ModelDefinition,
    mu_values: Iterable[float],
    coeffs: CylindricalCoefficients,
    frame: StandardFrame,
    guard: Callable[[np.ndarray], bool] | None = None,
    n_samples: int = 256,
) -> Branch:
    """Natural continuation of the orbit branch over a mu grid.

    The first point is seeded by the asymptotic prediction from ``coeffs``
    and ``frame``, its circle of `ORBIT_SAMPLES` samples.  Later points are
    seeded by extrapolating the collocated samples and period in s =
    sqrt|mu|, in which the branch is smooth (amplitude ~ s): the Lagrange
    polynomial through the last four of the Hopf point (s = 0,
    ``frame.origin`` at every sample, period 2 pi / ``frame.omega``) and the
    converged orbits.  A point's amplitude is the largest radius of its
    orbit in the frame's (u1, u2) plane, by `PeriodicOrbit.peak`, so it
    does not depend on ``n_samples``, the count of each orbit's `states`,
    which nothing here reads.  Orbits are found at `SWEEP_RTOL` and
    `BRANCH_NEWTON_TOL` (see `find_periodic_orbit`).

    Continuation stops at the first point where the orbit search fails; the
    partial branch is returned with ``lost_at`` set.
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

    seed: ShootingSeed | PredictedOrbit = predict_orbit(coeffs, grid[0], frame)
    points: list[BranchPoint] = []
    lost_at: float | None = None
    # (s, samples, period) with s = sqrt|mu|; the Hopf point is the branch's s = 0 end
    nodes = [(0.0, np.tile(frame.origin, (ORBIT_SAMPLES, 1)), 2.0 * math.pi / frame.omega)]
    for mu in grid:
        s = math.sqrt(abs(mu))
        if points:
            samples, period = _extrapolate(nodes[-4:], s)
            seed = ShootingSeed(samples[0], period, max(points[-1].amplitude, 1e-6), samples)
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
        amplitude = orbit.peak(
            lambda X: np.linalg.norm(frame.to_frame(X, mu)[..., :2], axis=-1)
        )
        points.append(BranchPoint(mu=mu, amplitude=amplitude, orbit=orbit))
        nodes.append((s, orbit.collocation.samples, orbit.collocation.period))

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
