"""Two predators competing for one logistic prey.

At equal break-even concentrations (mu = 0) the system carries a line of
coexistence equilibria; perturbing the second predator's break-even value by
mu destroys the line and produces the periodic-orbit branch analyzed by the
rest of the package.  This module writes the field and its linearisation
for an `EcoParams` and builds the model with `models.field_model` (the
``predator_prey`` builtin of `models` forwards here), and provides the
interior Hopf point, closed-form reference values for the reduced
coefficients in the analytic chart, the admissible parameter region with a
sampler, the single-predator boundary equilibrium, and the comparison
Lyapunov function.

States are (x1, x2, s): the two predator densities and the prey density,
with the prey rescaled to carrying capacity 1.  Parameters: per-predator
growth-rate ratios delta1, delta2 > 0, half-saturation constants alpha1,
alpha2, and the shared break-even concentration lam of predator 1; predator
2 breaks even at lam + mu.

The closed forms are written once and take Python floats (an `EcoParams`)
or float arrays (the draws of `classify_region`, which `eco-sweep` writes)
alike.  An array row has the bits of the float evaluation because the two
operations whose result depends on the input type are done the float way
on arrays too: squares go through libm ``pow`` element by element (numpy
squares an array as ``x * x``, which rounds differently, e.g. at
0.5245367165209572), and the exactly rounded sums are ``math.fsum`` of each
row.  When draws fail, the first failing draw in draw order is evaluated
again as floats and raises the typed error the float evaluation raises.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from .classifier import LABELS, Classification, classify, sign_decision
from .coefficients import CylindricalCoefficients, HarmonicScalar
from .errors import DegenerateAlphas, InvalidBounds, InvalidParams, NonFinite, NotAdmissible
from .models import ModelDefinition, _on_floats, field_model


@dataclasses.dataclass(frozen=True)
class EcoParams:
    """Parameter set for the two-predator/one-prey model; the one place its
    bounds are checked."""

    delta1: float
    delta2: float
    lam: float
    alpha1: float
    alpha2: float

    def __post_init__(self) -> None:
        if not self.delta1 > 0 or not self.delta2 > 0:
            raise InvalidParams("predator_prey needs positive growth-rate ratios delta1, delta2")
        if not self.alpha1 > 0 or not self.alpha2 > 0:
            raise InvalidParams("predator_prey needs positive half-saturation constants")
        if not 0 < self.lam < 1:
            raise InvalidParams("predator_prey needs break-even concentration 0 < lam < 1")

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
        type analysis applies (elementwise on `_Draws`)."""
        width = 1.0 - 2.0 * self.lam
        return (
            (0.0 < self.lam) & (self.lam < 0.5)
            & (0.0 < self.alpha1) & (self.alpha1 < width)
            & (width < self.alpha2) & (self.alpha2 < 1.0)
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


def _line_point(p: EcoParams) -> list[float]:
    """The closed-form point of the coexistence line where the spectrum is
    {0, +-i omega}; defined for alpha1 != alpha2."""
    gap = p.alpha2 - p.alpha1
    return [(p.lam + p.alpha1) ** 2 * p.l2 / gap, (p.lam + p.alpha2) ** 2 * p.l1 / gap, p.lam]


def model(p: EcoParams) -> ModelDefinition:
    """The predator-prey field for these parameters, written twice: ``field``
    (plain arithmetic, exact over rationals as well, for `models.jet` on
    Taylor numbers and for ``rhs``) and the linearisation, which forms the
    shared terms p1, p2, g1, g2, h1 and h2 once, with the operations of
    ``field``, and adds the Jacobian, the one hand-derived derivative.
    Both run under `models._on_floats` (``rhs`` in `models.field_model`),
    so the linearisation keeps the bits of ``rhs`` and ``jacobian``.
    ``metadata["hopf_seed"]`` is `_line_point` when |alpha2 - alpha1| > 1e-9
    and l1, l2 > 0."""
    delta1, delta2, lam, alpha1, alpha2 = p.delta1, p.delta2, p.lam, p.alpha1, p.alpha2

    def field(x1, x2, s, mu):
        g1 = (s - lam) / (s + alpha1)
        g2 = (s - lam - mu) / (s + alpha2)
        h1 = s / (s + alpha1)
        h2 = s / (s + alpha2)
        return [
            delta1 * x1 * g1,
            delta2 * x2 * g2,
            s * (1 - s) - x1 * h1 - x2 * h2,
        ]

    def field_and_derivative(x1, x2, s, mu):
        p1, p2 = s + alpha1, s + alpha2
        g1, g2 = (s - lam) / p1, (s - lam - mu) / p2
        h1, h2 = s / p1, s / p2
        q1, q2 = p1**2, p2**2
        dg1, dg2 = (lam + alpha1) / q1, (lam + mu + alpha2) / q2
        dh1, dh2 = alpha1 / q1, alpha2 / q2
        F = [delta1 * x1 * g1, delta2 * x2 * g2, s * (1 - s) - x1 * h1 - x2 * h2]
        return F, [
            [delta1 * g1, 0.0, delta1 * x1 * dg1],
            [0.0, delta2 * g2, delta2 * x2 * dg2],
            [-h1, -h2, 1.0 - 2.0 * s - x1 * dh1 - x2 * dh2],
        ]

    meta = {}
    if abs(alpha2 - alpha1) > 1e-9 and p.l1 > 0 and p.l2 > 0:
        meta["hopf_seed"] = _line_point(p)
    linearization = functools.partial(_on_floats, field_and_derivative)
    return field_model("predator_prey", field, linearization, metadata=meta)


@dataclasses.dataclass(frozen=True)
class _Draws:
    """Parameter sets as float arrays, one entry per draw.  The closed forms
    and `EcoParams.admissible` read them as they read an `EcoParams`."""

    delta1: np.ndarray
    delta2: np.ndarray
    lam: np.ndarray
    alpha1: np.ndarray
    alpha2: np.ndarray

    l1 = EcoParams.l1
    l2 = EcoParams.l2
    admissible = EcoParams.admissible

    def params(self) -> Iterator[EcoParams]:
        """Each draw as an `EcoParams`, in draw order."""
        columns = (getattr(self, f.name).tolist() for f in dataclasses.fields(self))
        return itertools.starmap(EcoParams, zip(*columns))


def _square(x):
    """``x ** 2`` with libm ``pow``, as Python squares a float; an array is
    squared element by element.  The closed forms square only lam and sums
    of lam, alpha1, alpha2 and 1, which stay below 2 on admissible
    parameters, so no square overflows."""
    if isinstance(x, np.ndarray):
        return np.fromiter(map(math.pow, x.tolist(), itertools.repeat(2.0)), float)
    return x**2


def _fsum(terms: list):
    """`math.fsum` of the terms, or of each row when they are float arrays."""
    if isinstance(terms[0], np.ndarray):
        return np.fromiter(map(math.fsum, zip(*(t.tolist() for t in terms))), float)
    return math.fsum(terms)


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
    return np.array(_line_point(p))


def h_polynomials(p: EcoParams) -> tuple[float, float]:
    """Cubic-coefficient building blocks H1, H2 of beta3.

    Each is a correctly rounded sum of the same six products with the roles
    of alpha1 and alpha2 swapped and all signs flipped, so
    H2(lam, alpha1, alpha2) == -H1(lam, alpha2, alpha1) holds exactly in
    floating point.  On the admissible region
    H1 = -lam (1-alpha1) - alpha2 (4 lam + 2 alpha1 + 2 l2) < 0 and
    H2 = lam (1-alpha2) + alpha1 (4 lam + 2 alpha1 + 2 l2) > 0, and the
    focus quantity is c ((lam+alpha1) delta1 l2 H1 - (lam+alpha2) delta2 l1 H2)
    with c > 0, so in exact arithmetic every admissible parameter set is of
    type ES; the tests prove both on these closed forms.
    """
    lam, a1, a2 = p.lam, p.alpha1, p.alpha2
    h1 = _fsum(
        [-lam, 2.0 * a2, lam * a1, -(8.0 * lam) * a2, -(2.0 * a1) * a2, -(2.0 * a2) * a2]
    )
    h2 = _fsum(
        [lam, -2.0 * a1, -lam * a2, (8.0 * lam) * a1, (2.0 * a1) * a2, (2.0 * a1) * a1]
    )
    return h1, h2


def closed_form_coefficients(p: EcoParams) -> dict[str, float]:
    """Reference reduced coefficients in the analytic chart at `hopf_point`.

    The chart's basis, in order: the prey axis (0, 0, 1); the Jacobian's
    prey column (a1, a2, 0) divided by omega, where
    a1 = delta1 (lam+alpha1) l2 / (l1+l2) and
    a2 = delta2 (lam+alpha2) l1 / (l1+l2); and the tangent of the
    equilibrium line scaled to x2-component 1, not to unit length, because
    the closed forms are tied to exactly that scaling.  The parameter drift
    there is d_mu F = (0, -a2, 0).

    The entries are omega, the sign-carrying beta2, beta3, beta5, beta6,
    gamma5, gamma7 and beta3's building blocks H1, H2; the focus quantity
    sigma is `classification_record`'s, computed by `classify` from these.
    """
    p.require_admissible()
    w2 = omega_squared(p)
    if w2 * w2 == 0.0:
        raise NonFinite(f"closed forms underflow: omega^4 is 0 (omega^2 = {w2:.3g})")
    try:
        return {"omega": math.sqrt(w2), **_closed_forms(p, w2)}
    except ZeroDivisionError:  # on arrays the quotient is inf or nan, and the draw is rejected
        raise NonFinite(f"closed forms underflow: a denominator is 0 (omega^2 = {w2:.3g})") from None


def _closed_forms(p: EcoParams, w2: float) -> dict[str, float]:
    """`closed_form_coefficients` after omega, on floats or on `_Draws`."""
    lam = p.lam
    d1, d2 = p.delta1, p.delta2
    l1, l2 = p.l1, p.l2
    q1, q2 = lam + p.alpha1, lam + p.alpha2
    lsum = l1 + l2
    w4 = w2 * w2
    h1, h2 = h_polynomials(p)
    lam_sq, q1_sq, q2_sq, lsum_sq = _square(lam), _square(q1), _square(q2), _square(lsum)

    beta2 = -lam * lsum / (2.0 * q1 * q2_sq)
    beta5 = lam * d1 * d2 * l1 * l2 / (2.0 * q1 * w2 * lsum)
    gamma5 = -lam * q2 * d1 * d2 * l1 * l2 / (w2 * lsum_sq)
    beta3 = lam * (q1 * d1 * l2 * h1 - q2 * d2 * l1 * h2) / (
        8.0 * q1_sq * q2_sq * w2 * lsum
    ) + lam_sq * d1 * d2 * l1 * l2 * (q1 * d2 - q2 * d1) / (
        4.0 * q1_sq * q2_sq * w4 * lsum
    )
    beta6 = (
        lam_sq * (q1 + l1) * d1 * d2 * (d1 * l2 - d2 * l1) / (2.0 * q1_sq * q2_sq * w4)
    )
    gamma7 = -lam_sq * d1 * d2 * (q1 * d1 * _square(l2) - q2 * d2 * _square(l1)) / (
        q1 * q2 * w4 * lsum_sq
    )
    return {
        "beta2": beta2,
        "beta3": beta3,
        "beta5": beta5,
        "beta6": beta6,
        "gamma5": gamma5,
        "gamma7": gamma7,
        "H1": h1,
        "H2": h2,
    }


def classification_record(p: EcoParams) -> Classification:
    """Classify from the closed forms alone (fast path for region sweeps);
    its ``sigma`` is the focus quantity of the closed forms."""
    return classify(_reduced(closed_form_coefficients(p)))


def _reduced(cf: Mapping[str, float]) -> CylindricalCoefficients:
    """The closed forms as reduced coefficients.  Only the sign-carrying
    coefficients enter the classification, so the others are zero."""
    zero = HarmonicScalar()
    return CylindricalCoefficients(
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


#: predator densities at or below this count as extinct for `interior_guard`
INTERIOR_FLOOR = 1e-6


def interior_guard() -> Callable[[np.ndarray], bool]:
    """Predicate for states strictly inside the coexistence region."""

    def guard(X: np.ndarray) -> bool:
        return bool(X[0] > INTERIOR_FLOOR and X[1] > INTERIOR_FLOOR and 0.0 < X[2] < 1.0)

    return guard


def boundary_equilibrium(p: EcoParams) -> tuple[float, float, float]:
    """E1 = ((lam+alpha1)(1-lam), 0, lam): predator 1 alone with the prey, on
    the invariant plane x2 = 0."""
    return ((p.lam + p.alpha1) * (1.0 - p.lam), 0.0, p.lam)


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
#: range of the log-uniform delta draws of `sample_region`, and of
#: `eco-sweep` without ``--delta-bounds``
DELTA_BOUNDS = (0.05, 20.0)


def sample_region(n: int, seed: int) -> list[EcoParams]:
    """Draw ``n >= 1`` admissible parameter sets from ``seed >= 0``,
    log-uniform in the deltas over `DELTA_BOUNDS`, at least `SAMPLE_MARGIN`
    (relative) inside the region boundary."""
    return list(_draw_region(n, seed, DELTA_BOUNDS).params())


def _draw_region(n: int, seed: int, delta_bounds: tuple[float, float]) -> _Draws:
    """`sample_region`'s draws as arrays, log-uniform in the deltas over
    ``delta_bounds``.  Draw i takes the five uniforms 5i, ..., 5i+4 of the
    stream: lam, the relative positions of alpha1 and alpha2 in their
    ranges, and the two log-deltas."""
    lo, hi = delta_bounds
    if not (0.0 < lo < hi):
        raise InvalidBounds(f"delta bounds must satisfy 0 < lo < hi, got {delta_bounds}")
    if n < 1:
        raise InvalidBounds(f"the sample count must be at least 1, got {n}")
    if seed < 0:
        raise InvalidBounds(f"the seed must be a non-negative integer, got {seed}")
    rng = np.random.default_rng(seed)
    inner, outer = SAMPLE_MARGIN, 1.0 - SAMPLE_MARGIN
    u = rng.uniform(
        (0.5 * inner, inner, inner, math.log(lo), math.log(lo)),
        (0.5 * outer, outer, outer, math.log(hi), math.log(hi)),
        size=(n, 5),
    )
    lam = u[:, 0]
    width = 1.0 - 2.0 * lam
    # exp of a contiguous array, as each draw's pair of deltas was exponentiated
    deltas = np.exp(u[:, 3:].ravel()).reshape(n, 2)
    draws = _Draws(
        delta1=deltas[:, 0],
        delta2=deltas[:, 1],
        lam=lam,
        alpha1=width * u[:, 1],
        alpha2=width + (1.0 - width) * u[:, 2],
    )
    assert draws.admissible().all()
    return draws


def classify_region(
    n: int, seed: int, delta_bounds: tuple[float, float]
) -> tuple[_Draws, dict[str, np.ndarray], list[str]]:
    """`_draw_region`'s draws, their closed forms (the entries of
    `closed_form_coefficients` and the focus quantity ``sigma``, as arrays)
    and their type labels.

    Every value has the bits of `closed_form_coefficients` and
    `classification_record` on that draw.  When a draw fails, the first
    failing draw in draw order raises the typed error it raises as floats.
    """
    draws = _draw_region(n, seed, delta_bounds)
    return (draws, *_classify_draws(draws))


def _classify_draws(draws: _Draws) -> tuple[dict[str, np.ndarray], list[str]]:
    w2 = omega_squared(draws)
    cf = {"omega": np.sqrt(w2), **_closed_forms(draws, w2)}
    decision = sign_decision(_reduced(cf))
    cf["sigma"] = decision.sigma
    failed = (w2 * w2 == 0.0) | ~decision.accepted
    if failed.any():
        # a rejected draw has the same values as floats, and so the same verdict
        for p, rejected in zip(draws.params(), failed):
            if rejected:
                classification_record(p)
        raise AssertionError("a draw rejected on arrays is accepted as floats")
    return cf, np.asarray(LABELS)[decision.label].tolist()
