"""Reference computations only the tests use.

Each one checks a claim of the package against an independent route: the
closed-form coefficients in their analytic chart, the mu = 0 equilibrium
line of the predator-prey model, the averaged transverse drift of the full
flow, the region sampler drawn one parameter set at a time, a
finite-difference jet probed one state at a time, the linearisations
that the generated polynomial kernel and the fused predator-prey one
replaced, the term loop that a polynomial's generated ``field``
replaced, and the dense numpy Taylor arithmetic that the compiled jet
programs of `models._field_jet` replaced.
"""
from __future__ import annotations

import dataclasses
import functools
import itertools
import math
import numbers
import operator
from typing import Callable, Sequence

import numpy as np

from hybridhopf import eco, models
from hybridhopf.coefficients import CylindricalCoefficients
from hybridhopf.eco import EcoParams
from hybridhopf.errors import InvalidParams, NonFinite
from hybridhopf.frame import StandardFrame
from hybridhopf.models import (
    _INDEX,
    _LEFT,
    _MONOMIALS,
    _MU_INDICES,
    _OUTPUTS,
    _RIGHT,
    _TARGET,
    FIELD_JET_TOLERANCE,
    JET_ORDER,
    STATE_DIM,
    JetTable,
    ModelDefinition,
    PolynomialField,
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


def polynomial_linearization(field: PolynomialField) -> Callable[..., tuple[list, list]]:
    """(x1, x2, x3, mu) -> (F, DF) by the numpy evaluation of ``field``'s
    layout of F and DF that its generated kernel replaced: one table of libm
    powers on Python floats (on numpy scalars where Python overflows), one
    gather, ``prod(axis=1)`` over each pair's four factors and one
    ``np.bincount`` summing each entry in pair order."""
    powers, index, coefs, weight, slots, size = field._linear

    def linearize(x1, x2, x3, mu):
        x = (x1, x2, x3, mu)
        try:
            table = [x[axis] ** k for axis, k in powers]
        except OverflowError:
            table = [np.float64(x[axis]) ** k for axis, k in powers]
        pairs = coefs * (weight * np.array(table)[index].prod(axis=1))
        v = np.bincount(slots, pairs, size).tolist()
        return v[0::4], [v[1:4], v[5:8], v[9:12]]

    return linearize


def polynomial_field_loop(field: PolynomialField) -> Callable[..., list]:
    """(x1, x2, x3, mu) -> F by the term loop that ``field.field``, the F
    pairs of the generated kernel, replaced: each power a term needs taken
    once per call, and each component summed from 0.0 in term order as
    ``coef * prod(powers)``, zero coefficients included."""
    rows = field.exponents.tolist()
    powers = sorted({(axis, k) for row in rows for axis, k in enumerate(row) if k})
    position = {power: n for n, power in enumerate(powers)}
    terms = [
        (coef, c, [position[axis, k] for axis, k in enumerate(row) if k])
        for coef, row, c in zip(field.coefs.tolist(), rows, field.component.tolist())
    ]

    def loop(x1, x2, x3, mu):
        x = (x1, x2, x3, mu)
        table = [x[axis] ** k for axis, k in powers]
        out = [0.0] * STATE_DIM
        for coef, c, positions in terms:
            out[c] = out[c] + coef * math.prod([table[n] for n in positions])
        return out

    return loop


def predator_prey_linearization(p: EcoParams) -> Callable[..., tuple[list, list]]:
    """(x1, x2, s, mu) -> (F, DF) as `eco.model` formed it before its
    linearisation took the shared terms once: the model's ``field`` and a
    separate hand-written derivative, both repeated on numpy scalars when
    either raises."""
    field = eco.model(p).field
    delta1, delta2, lam, alpha1, alpha2 = p.delta1, p.delta2, p.lam, p.alpha1, p.alpha2

    def derivative(x1, x2, s, mu):
        p1, p2 = s + alpha1, s + alpha2
        g1, g2 = (s - lam) / p1, (s - lam - mu) / p2
        dg1, dg2 = (lam + alpha1) / p1**2, (lam + mu + alpha2) / p2**2
        h1, h2 = s / p1, s / p2
        dh1, dh2 = alpha1 / p1**2, alpha2 / p2**2
        return [
            [delta1 * g1, 0.0, delta1 * x1 * dg1],
            [0.0, delta2 * g2, delta2 * x2 * dg2],
            [-h1, -h2, 1.0 - 2.0 * s - x1 * dh1 - x2 * dh2],
        ]

    def field_and_derivative(*x):
        return field(*x), derivative(*x)

    return functools.partial(models._on_floats, field_and_derivative)


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


# ---------------------------------------------------------------------------
# jets from the field on dense numpy Taylor numbers
# ---------------------------------------------------------------------------

#: the constant 1, and the four variables with their constant terms still 0
_ONE = np.eye(1, len(_MONOMIALS)).ravel()
#: the jet rows among the monomials, and the factorials of their exponents
_JET_SLOTS, _JET_FACTORIALS = (np.array(column) for column in zip(*_OUTPUTS))
_SEEDS = np.eye(len(_MONOMIALS))[_INDEX[tuple(np.eye(4, dtype=int))]]


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.bincount(_TARGET, a[_LEFT] * b[_RIGHT], len(_MONOMIALS))


def _quotient(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a / b by the geometric series: for b = b0 (1 + d), d without a
    constant term, a / b = (a / b0) (1 - d + d^2 - d^3), summed by Horner."""
    if b[0] == 0.0:
        raise ZeroDivisionError("division by a Taylor number with a zero constant term")
    q, d = a / b[0], b / b[0]
    d[0] = 0.0
    out = q
    for _ in range(JET_ORDER):
        out = q - _product(out, d)
    return out


def _lift(value) -> np.ndarray:
    """The coefficients of a `_Taylor`, or of a real constant."""
    if isinstance(value, _Taylor):
        return value.c
    if type(value) is not float and not isinstance(value, numbers.Real):
        raise TypeError(f"{type(value).__name__} is not a real number")
    return _ONE * value


class _Taylor:
    """A polynomial in (x1, x2, x3, mu) cut at weighted degree JET_ORDER, mu
    counting twice, with ``c[n]`` the coefficient of ``_MONOMIALS[n]``.  It
    has ``+ - * /`` with reals on either side and integer powers; anything
    else (``abs``, ``math.exp``, comparisons, numpy functions) raises
    `TypeError`.  Its name is the traced class's, so the messages of those
    errors are the same."""

    __array_ufunc__ = None  # numpy scalars defer to the reflected operators

    def __init__(self, c: np.ndarray):
        self.c = c

    __add__ = __radd__ = lambda self, other: _Taylor(self.c + _lift(other))
    __sub__ = lambda self, other: _Taylor(self.c - _lift(other))
    __rsub__ = lambda self, other: _Taylor(_lift(other) - self.c)
    __truediv__ = lambda self, other: _Taylor(_quotient(self.c, _lift(other)))
    __rtruediv__ = lambda self, other: _Taylor(_quotient(_lift(other), self.c))
    __neg__ = lambda self: _Taylor(-self.c)
    __pos__ = lambda self: self

    def __mul__(self, other):
        if type(other) is float or isinstance(other, numbers.Real):
            return _Taylor(self.c * other)
        return _Taylor(_product(self.c, _lift(other)))

    __rmul__ = __mul__

    def __pow__(self, k):
        """(a0 + d)^k as the sum of C(k, n) a0^(k-n) d^n over n <= JET_ORDER,
        so a large k costs what a small one does."""
        k = operator.index(k)
        if k < 0:
            return 1 / self ** -k
        if k == 1:
            return self
        a0, d = self.c[0], self.c.copy()
        d[0], out, power = 0.0, _lift(a0**k), _ONE
        for n in range(1, min(k, JET_ORDER) + 1):
            power = d if n == 1 else _product(power, d)
            out += float(math.comb(k, n)) * a0 ** (k - n) * power
        return _Taylor(out)


def taylor_field_jet(model: ModelDefinition, X: np.ndarray, mu: float) -> JetTable:
    """The jet of ``model.field`` at (X, mu) evaluated on dense `_Taylor`
    numbers, with the errors of `models._field_jet`; non-finite entries are
    kept.  Run it under ``np.errstate``."""
    if model.field is None:
        raise InvalidParams(f"model '{model.name}' has neither an exact jet nor a field")
    seeds = _SEEDS.copy()
    seeds[:, 0] = (*X, mu)
    try:
        rows = [_lift(F) for F in model.field(*map(_Taylor, seeds))]
        if len(rows) != STATE_DIM:
            raise TypeError(f"it has {len(rows)} components")
    except ArithmeticError as exc:  # a pole, or a Python float overflow
        at = f"state={X.tolist()}, mu={mu}"
        raise NonFinite(f"model '{model.name}' field fails at {at}: {exc}") from exc
    except TypeError as exc:
        raise InvalidParams(
            f"model '{model.name}' field must use only + - * / and integer powers: {exc}"
        ) from exc
    entries = (np.array(rows)[:, _JET_SLOTS] * _JET_FACTORIALS).T
    tolerance = FIELD_JET_TOLERANCE if model.jacobian is None else 1e-12
    return JetTable.from_entries(X, mu, entries, tolerance)
