"""Vector fields on R^3 with derivative jets.

A model bundles a right-hand side F(X; mu) with a way to obtain its partial
derivatives at a point: either exact closed forms (builtin and polynomial
models) or guarded finite differences.  Everything downstream (frames,
reduced coefficients, classification) consumes the `JetTable` produced here.
A jet holds derivative tensors up to order three, ``F``, ``DF``, ``D^2 F``
and ``D^3 F`` with entry ``[c, i, j, ...] = d_i d_j ... F_c``, plus the
parameter block ``d_mu F`` and ``d_mu DF``.  Producers hand
`JetTable.from_entries` one vector per multi-index ``(a, b, c)`` (the
partial ``d^a_{x1} d^b_{x2} d^c_{x3}``); that multi-index layout is known
only to this module.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from .errors import InvalidParams, NonFinite, SymmetryDefect, UnknownModel

STATE_DIM = 3
JET_ORDER = 3

StateIndex = tuple[int, int, int]

#: central-difference stencils (offset -> weight); divide by h**order
_STENCILS: dict[int, dict[int, float]] = {
    0: {0: 1.0},
    1: {-1: -0.5, 1: 0.5},
    2: {-1: 1.0, 0: -2.0, 1: 1.0},
    3: {-2: -0.5, -1: 1.0, 1: -1.0, 2: 0.5},
}


def state_multi_indices() -> Iterator[StateIndex]:
    """Yield all (a, b, c) with 1 <= a+b+c <= JET_ORDER, graded-lex order."""
    for total in range(1, JET_ORDER + 1):
        for a in range(total, -1, -1):
            for b in range(total - a, -1, -1):
                yield (a, b, total - a - b)


#: rows of `JetTable.from_entries`: the state block (F first), then d_mu
_JET_INDICES: tuple[StateIndex, ...] = ((0, 0, 0), *state_multi_indices())
_MU_INDICES: tuple[StateIndex, ...] = ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1))


def _gather_table(indices: Sequence[StateIndex], order: int, first_row: int = 0) -> np.ndarray:
    """Flat positions in the (rows, 3) entry block that fill the order-``order``
    tensor, shaped like it: slot [c, i, j, ...] reads component c of the row
    whose multi-index counts the axes (i, j, ...)."""
    rows = {index: first_row + n for n, index in enumerate(indices)}
    slots = [
        rows[tuple(map(axes.count, range(STATE_DIM)))]
        for axes in itertools.product(range(STATE_DIM), repeat=order)
    ]
    table = STATE_DIM * np.array(slots) + np.arange(STATE_DIM)[:, None]
    return table.reshape((STATE_DIM,) * (order + 1))


_STATE_GATHER = tuple(_gather_table(_JET_INDICES, k) for k in range(JET_ORDER + 1))
_MU_GATHER = tuple(_gather_table(_MU_INDICES, k, len(_JET_INDICES)) for k in range(2))


@dataclasses.dataclass(frozen=True)
class JetTable:
    """Derivatives of a vector field at one (point, mu), as tensors.

    Attributes
    ----------
    point, mu : expansion point.
    state_derivs : (F, DF, D^2 F, D^3 F) with shapes (3,), (3, 3), (3, 3, 3)
        and (3, 3, 3, 3); entry [c, i, j, ...] is d_i d_j ... F_c.
    mu_derivs : (d_mu F, d_mu DF) with shapes (3,) and (3, 3), the parameter
        block needed by first-order theory.
    tolerance : accuracy the producer claims for each entry.
    symmetry_defect : largest discrepancy between two evaluation routes for
        mixed second partials (0.0 for exact jets).

    Every tensor is C-contiguous, since `np.einsum` sums a strided operand
    in another order and so moves `standard_jet` entries by an ulp.  The
    tensors must be treated as immutable.
    """

    point: np.ndarray
    mu: float
    state_derivs: tuple[np.ndarray, ...]
    mu_derivs: tuple[np.ndarray, ...]
    tolerance: float
    symmetry_defect: float = 0.0

    @classmethod
    def from_entries(
        cls,
        point: Sequence[float],
        mu: float,
        entries: np.ndarray | Sequence[Sequence[float]],
        tolerance: float,
        symmetry_defect: float = 0.0,
    ) -> JetTable:
        """Jet from one 3-vector per multi-index: 24 rows, the 20 of
        ``(0, 0, 0)`` and `state_multi_indices` for F, then the four
        ``(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)`` for d_mu F."""
        flat = np.asarray(entries, dtype=float).reshape(-1)
        return cls(
            point=np.array(point, dtype=float),
            mu=float(mu),
            state_derivs=tuple(flat[table] for table in _STATE_GATHER),
            mu_derivs=tuple(flat[table] for table in _MU_GATHER),
            tolerance=tolerance,
            symmetry_defect=symmetry_defect,
        )


@dataclasses.dataclass(frozen=True)
class ModelDefinition:
    """A named vector field with optional exact derivatives.

    ``rhs(X, mu)`` returns dX/dt.  ``exact_jet`` (when present) returns a
    `JetTable` whose entries are closed-form, not finite differences.
    ``jacobian`` (when present) returns dF/dX as a (3, 3) float ndarray, which
    callers use as is.
    ``in_domain`` demarcates the region where evaluation is trusted; solvers
    use it as a guard.
    """

    name: str
    rhs: Callable[[np.ndarray, float], np.ndarray]
    exact_jet: Callable[[np.ndarray, float], JetTable] | None = None
    jacobian: Callable[[np.ndarray, float], np.ndarray] | None = None
    in_domain: Callable[[np.ndarray], bool] = lambda X: True
    metadata: Mapping[str, object] = dataclasses.field(default_factory=dict)


def evaluate(model: ModelDefinition, state: Sequence[float], mu: float) -> np.ndarray:
    """Evaluate dX/dt, rejecting non-finite output."""
    X = np.asarray(state, dtype=float)
    if X.shape != (STATE_DIM,):
        raise InvalidParams(f"state must have length {STATE_DIM}, got shape {X.shape}")
    out = np.asarray(model.rhs(X, float(mu)), dtype=float)
    if not np.all(np.isfinite(out)):
        raise NonFinite(
            f"model '{model.name}' produced non-finite output at state={X.tolist()}, mu={mu}"
        )
    return out


def jet(model: ModelDefinition, point: Sequence[float], mu: float) -> JetTable:
    """Model jet at a point: exact when available, finite differences otherwise."""
    X = np.asarray(point, dtype=float)
    if model.exact_jet is not None:
        return model.exact_jet(X, float(mu))
    return finite_difference_jet(model, X, float(mu))


def central_difference(
    f: Callable[[np.ndarray], np.ndarray], X: np.ndarray
) -> np.ndarray:
    """Matrix whose column i is (f(X + h e_i) - f(X - h e_i)) / 2h, with
    h = 1e-7 * max(1, |x_i|)."""
    columns = []
    for i in range(STATE_DIM):
        h = 1e-7 * max(1.0, abs(X[i]))
        e = np.zeros(STATE_DIM)
        e[i] = h
        columns.append((f(X + e) - f(X - e)) / (2.0 * h))
    return np.column_stack(columns)


def jacobian_fn(model: ModelDefinition) -> Callable[[np.ndarray, float], np.ndarray]:
    """(X, mu) -> dF/dX: the model's Jacobian, else `central_difference` of the RHS."""
    if model.jacobian is not None:
        return model.jacobian
    return lambda X, mu: central_difference(lambda P: model.rhs(P, mu), X)


# ---------------------------------------------------------------------------
# polynomial fields (exact jets by term-wise differentiation)
# ---------------------------------------------------------------------------


class PolynomialField:
    """Three polynomial components in (x1, x2, x3, mu) with exact jets.

    Terms are rows ``(coef, i, j, k, m)`` for ``coef * x1^i x2^j x3^k mu^m``,
    held as ``coefs`` (n,), ``exponents`` (n, 4) and ``component`` (n,).  For
    the RHS (in ``__init__``), the Jacobian columns and the 24 jet entries
    (each on first use, so finite-difference models never build them), the
    field lays out each (derivative order, term) pair as the chain
    ``coef w_1 x1^e_1 w_2 x2^e_2 w_3 x3^e_3 w_mu mu^e_mu`` (falling-factorial
    weights w, reduced exponents e).  A call builds a power table with libm
    ``pow`` on Python floats (numpy's array power and ``x * x`` round
    differently), multiplies every chain in that order in one reduction and
    sums each entry in term order with ``np.bincount``, so results equal the
    term-by-term loop bit for bit; where a power is not finite, `_stepwise`
    repeats the loop's stop at the first zero factor.
    """

    def __init__(self, components: Sequence[Sequence[Sequence[float]]]):
        if len(components) != STATE_DIM:
            raise InvalidParams("a polynomial field needs exactly 3 components")
        rows = [row for terms in components for row in terms]
        self.coefs = np.array([row[0] for row in rows], dtype=float)
        self.exponents = np.array([row[1:] for row in rows], dtype=int).reshape(-1, 4)
        self.component = np.repeat(np.arange(STATE_DIM), [len(t) for t in components])
        self._rhs = self._layout([(0, 0, 0, 0)])

    @functools.cached_property
    def _jacobian(self):
        return self._layout([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)])

    @functools.cached_property
    def _jet(self):
        return self._layout([(*i, 0) for i in _JET_INDICES] + [(*i, 1) for i in _MU_INDICES])

    def _layout(self, orders: list[tuple[int, int, int, int]], every_term: bool = False):
        """What a call with these derivative orders needs: the orders, the
        chain matrix (one row per factor, indexing [power table, constants]),
        the output slot of each chain, the (axis, k) pairs of the power table
        and the constants.

        The table holds every power the term loop could take for these
        orders.  Unless ``every_term``, pairs with a zero weight or
        coefficient are left out (at finite powers they add a signed zero to
        a sum that starts at +0.0), and so are factor rows that are 1.0 in
        every chain (multiplying by 1.0 is exact).
        """
        order = np.array(orders)
        taken = np.maximum(self.exponents[None] - order[:, None], 0)
        ks, inverse = np.unique(taken, return_inverse=True)
        index = np.arange(4) * len(ks) + inverse.reshape(taken.shape)
        powers = [(axis, k) for axis in range(4) for k in ks.tolist()]
        kept = (self.exponents[None] >= order[:, None]).all(axis=2) & (self.coefs != 0.0)
        q, t = np.nonzero(kept | every_term)
        power, reduced, d = self.exponents[t], taken[q, t], order[q]
        weight = np.ones(reduced.shape)
        for step in range(JET_ORDER):
            weight = np.where(d > step, weight * (power - step), weight)
        weight[power < d] = 0.0
        start = len(powers)
        constants = np.concatenate(
            (np.zeros(start), self.coefs[t] * weight[:, 0], weight[:, 1:].T.ravel())
        )
        chain, weighted, powered = [], (weight != 1.0).any(axis=0), reduced.any(axis=0)
        for axis in range(4):
            if axis == 0 or weighted[axis]:
                chain.append(start + axis * len(t) + np.arange(len(t)))
            if powered[axis]:
                chain.append(index[q, t, axis])
        slots = self.component[t] * len(order) + q
        return orders, np.array(chain), slots, powers, constants

    def _evaluate(self, layout, X, mu) -> np.ndarray:
        orders, chain, slots, powers, constants = layout
        x = (*np.asarray(X, dtype=float)[:STATE_DIM].tolist(), float(mu))
        try:
            table = [x[axis] ** k for axis, k in powers]
        except OverflowError:  # Python floats raise where numpy scalars give inf
            table = None
        if table is None or not math.isfinite(sum(x)):
            return self._stepwise(orders, x)
        values = constants.copy()
        values[: len(table)] = table
        return np.bincount(slots, values[chain].prod(axis=0), STATE_DIM * len(orders))

    def _stepwise(self, orders, x) -> np.ndarray:
        """Non-finite powers: every term, each chain stopped at its first zero
        as the term-by-term loop did (0 * inf is nan, a stopped chain adds 0)."""
        _, chain, slots, powers, constants = self._layout(orders, every_term=True)
        values = constants.copy()
        values[: len(powers)] = [np.float64(x[axis]) ** k for axis, k in powers]
        partial = np.multiply.accumulate(values[chain])
        products = np.where((partial == 0.0).any(axis=0), 0.0, partial[-1])
        return np.bincount(slots, products, STATE_DIM * len(orders))

    def rhs(self, X: np.ndarray, mu: float) -> np.ndarray:
        return self._evaluate(self._rhs, X, mu)

    def jacobian(self, X: np.ndarray, mu: float) -> np.ndarray:
        return self._evaluate(self._jacobian, X, mu).reshape(STATE_DIM, STATE_DIM)

    def exact_jet(self, point: np.ndarray, mu: float) -> JetTable:
        entries = self._evaluate(self._jet, point, mu).reshape(STATE_DIM, -1).T
        return JetTable.from_entries(point, mu, entries, tolerance=1e-12)

    def model(self, name: str) -> ModelDefinition:
        """The field as a model with its exact Jacobian and jet."""
        return ModelDefinition(name, self.rhs, self.exact_jet, self.jacobian)


def polynomial_model(
    spec: Mapping[str, Sequence[Sequence[float]]], name: str = "polynomial"
) -> ModelDefinition:
    """Build a model from ``{"y1": [[coef, i, j, k, m], ...], "y2": ..., "z": ...}``."""
    keys = ("y1", "y2", "z")
    if not isinstance(spec, Mapping) or set(spec) != set(keys):
        raise InvalidParams(f"polynomial spec must be an object with exactly the keys {keys}")
    components = []
    for key in keys:
        terms = []
        rows = spec[key]
        for row in rows if isinstance(rows, Sequence) else [rows]:
            if not isinstance(row, Sequence) or len(row) != 5:
                raise InvalidParams(
                    f"each term is [coef, i, j, k, m]; component {key!r} has {row!r}"
                )
            try:
                coef, powers = float(row[0]), tuple(int(p) for p in row[1:])
            except (TypeError, ValueError, OverflowError) as exc:
                raise InvalidParams(f"terms must hold numbers: {list(row)}") from exc
            if not math.isfinite(coef):
                raise InvalidParams(f"coefficients must be finite: {list(row)}")
            if any(not 0 <= p < 2**63 or p != q for p, q in zip(powers, row[1:])):
                raise InvalidParams(f"exponents must be integers in [0, 2**63): {list(row)}")
            terms.append((coef, *powers))
        components.append(terms)
    return PolynomialField(components).model(name)


# ---------------------------------------------------------------------------
# finite-difference jets
# ---------------------------------------------------------------------------

#: steps relative to max(1, |coordinate|): stencils up to order two, order
#: three (larger, since the quotient divides by h^3) and the parameter
FD_STEP = 1e-4
FD_STEP_THIRD = 1e-3
FD_STEP_MU = 1e-4
#: accuracy a finite-difference jet claims for each entry
FD_TOLERANCE = 1e-6
#: mixed-partial routes may disagree by this many tolerances
FD_SYMMETRY_FACTOR = 100.0


def _fd_tensor(
    f: Callable[[np.ndarray], np.ndarray],
    point: np.ndarray,
    orders: Sequence[int],
    steps: np.ndarray,
) -> np.ndarray:
    """Tensor-product central difference of given per-axis orders."""
    total = np.zeros(STATE_DIM)
    for stencil in itertools.product(*(_STENCILS[o].items() for o in orders)):
        offsets, weights = zip(*stencil)
        total += math.prod(weights) * f(point + np.array(offsets) * steps)
    scale = 1.0
    for o, h in zip(orders, steps):
        scale *= h**o
    return total / scale


def _richardson(quotient: Callable, h):
    """One Richardson step on an O(h^2) difference ``quotient`` of step h."""
    return (4.0 * quotient(h / 2.0) - quotient(h)) / 3.0


def finite_difference_jet(
    model: ModelDefinition, point: Sequence[float], mu: float
) -> JetTable:
    """Order-3 jet by guarded central differences.

    Every entry is computed on a tensor-product central stencil at two step
    sizes and Richardson-extrapolated.  Mixed second partials are additionally
    recomputed through a diagonal directional route; if the two routes
    disagree by more than ``FD_SYMMETRY_FACTOR * FD_TOLERANCE`` the field is
    not C^2 at the requested accuracy and `SymmetryDefect` is raised.  Every
    probe goes through `evaluate`, so one that is not finite raises `NonFinite`.
    """
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

    # cross-route check on mixed second partials
    defect = 0.0
    for i, j in ((0, 1), (0, 2), (1, 2)):
        idx = tuple(1 if k in (i, j) else 0 for k in range(STATE_DIM))
        u = np.array(idx, dtype=float) / math.sqrt(2.0)

        def second(step: float) -> np.ndarray:
            values = [at(mu)(X + s * u) for s in (step, 0.0, -step)]
            return (values[0] - 2.0 * values[1] + values[2]) / step**2

        second_u = _richardson(second, FD_STEP * max(1.0, abs(X[i]), abs(X[j])))
        e_i = tuple(2 if k == i else 0 for k in range(STATE_DIM))
        e_j = tuple(2 if k == j else 0 for k in range(STATE_DIM))
        diag_route = second_u - 0.5 * (entries[e_i] + entries[e_j])
        defect = max(defect, float(np.max(np.abs(entries[idx] - diag_route))))
    threshold = FD_SYMMETRY_FACTOR * FD_TOLERANCE
    if defect > threshold:
        raise SymmetryDefect(
            f"mixed partial routes disagree by {defect:.3e} (threshold {threshold:.1e})"
        )

    # parameter block: d_mu F and d_mu d_{x_i} F
    def mu_derivative(state_idx: StateIndex) -> np.ndarray:
        def entry_at(m: float) -> np.ndarray:
            if state_idx == (0, 0, 0):
                return at(m)(X)
            return partial(m, state_idx, FD_STEP)

        def first(step: float) -> np.ndarray:
            return (entry_at(mu + step) - entry_at(mu - step)) / (2.0 * step)

        return _richardson(first, FD_STEP_MU * max(1.0, abs(mu)))

    mu_entries = [mu_derivative(idx) for idx in _MU_INDICES]
    return JetTable.from_entries(X, mu, [*entries.values(), *mu_entries], FD_TOLERANCE, defect)


# ---------------------------------------------------------------------------
# builtin catalog
# ---------------------------------------------------------------------------


def _require(
    params: Mapping[str, float],
    names: Sequence[str],
    model: str,
    defaults: Mapping[str, float] | None = None,
) -> list[float]:
    """The named parameters as finite floats, missing ones taken from
    ``defaults``; anything else is `InvalidParams`."""
    if not isinstance(params, Mapping):
        raise InvalidParams(f"model '{model}' params must be a JSON object")
    filled = {**(defaults or {}), **params}
    missing = [n for n in names if n not in filled]
    if missing:
        raise InvalidParams(f"model '{model}' missing parameters: {missing}")
    extra = sorted(set(params) - set(names))
    if extra:
        raise InvalidParams(f"model '{model}' got unknown parameters: {extra}")
    try:
        values = [float(filled[n]) for n in names]
    except (TypeError, ValueError) as exc:
        raise InvalidParams(f"model '{model}' parameters must be numbers") from exc
    if not all(map(math.isfinite, values)):
        raise InvalidParams(f"model '{model}' parameters must be finite")
    return values


def _on_floats(expressions: Callable, X: np.ndarray, mu: float):
    """``expressions(x1, x2, x3, mu)`` on Python floats: the same IEEE operations
    as on numpy scalars (``**`` is libm ``pow`` on both), so the same bits at a
    fraction of the cost.  Where Python raises instead (a pole, an overflowing
    power), they are repeated on numpy scalars, which give inf or nan."""
    try:
        return expressions(*X.tolist(), mu)
    except (ZeroDivisionError, OverflowError):
        return expressions(*X, mu)


def _predator_prey(params: Mapping[str, float]) -> ModelDefinition:
    delta1, delta2, lam, alpha1, alpha2 = _require(
        params, ("delta1", "delta2", "lam", "alpha1", "alpha2"), "predator_prey"
    )
    if delta1 <= 0 or delta2 <= 0:
        raise InvalidParams("predator_prey needs positive growth-rate ratios delta1, delta2")
    if alpha1 <= 0 or alpha2 <= 0:
        raise InvalidParams("predator_prey needs positive half-saturation constants")
    if not 0 < lam < 1:
        raise InvalidParams("predator_prey needs break-even concentration 0 < lam < 1")

    def field(x1, x2, s, mu):
        g1 = (s - lam) / (s + alpha1)
        g2 = (s - lam - mu) / (s + alpha2)
        h1 = s / (s + alpha1)
        h2 = s / (s + alpha2)
        return [
            delta1 * x1 * g1,
            delta2 * x2 * g2,
            s * (1.0 - s) - x1 * h1 - x2 * h2,
        ]

    def rhs(X: np.ndarray, mu: float) -> np.ndarray:
        return np.array(_on_floats(field, X, mu))

    def exact_jet(point: np.ndarray, mu: float) -> JetTable:
        x1, x2, s = (float(v) for v in point)

        # n-th s-derivatives of g_j(s) = (s - lam_j)/(s + alpha_j) and
        # h_j(s) = s/(s + alpha_j); both are 1 - const/(s + alpha_j).
        def rational_derivs(const: float, alpha: float) -> list[float]:
            # derivatives of -const/(s+alpha): order 0..3 of the full g or h
            p = s + alpha
            if p == 0.0:
                raise NonFinite("predator_prey jet at a pole of a response function")
            out = [1.0 - const / p]
            sign = 1.0
            fact = 1.0
            for n in range(1, JET_ORDER + 1):
                fact *= n
                out.append(sign * fact * const / p ** (n + 1))
                sign = -sign
            return out

        g1d = rational_derivs(lam + alpha1, alpha1)
        g2d = rational_derivs(lam + mu + alpha2, alpha2)
        h1d = rational_derivs(alpha1, alpha1)
        h2d = rational_derivs(alpha2, alpha2)
        logistic = [s * (1.0 - s), 1.0 - 2.0 * s, -2.0, 0.0]
        # d_mu g2 derivatives in s: -1/(s+alpha2) and its s-derivatives
        p2 = s + alpha2
        gmu = [-1.0 / p2, 1.0 / p2**2, -2.0 / p2**3, 6.0 / p2**4]

        entries = [rhs(np.array([x1, x2, s]), mu)]
        for a, b, c in state_multi_indices():
            f1 = 0.0
            if b == 0 and a <= 1:
                f1 = delta1 * g1d[c] * (x1 if a == 0 else 1.0)
            f2 = 0.0
            if a == 0 and b <= 1:
                f2 = delta2 * g2d[c] * (x2 if b == 0 else 1.0)
            f3 = 0.0
            if a == 0 and b == 0:
                f3 = logistic[c] - x1 * h1d[c] - x2 * h2d[c]
            elif a == 1 and b == 0:
                f3 = -h1d[c]
            elif a == 0 and b == 1:
                f3 = -h2d[c]
            entries.append((f1, f2, f3))
        entries += [
            (0.0, delta2 * x2 * gmu[0], 0.0),
            (0.0, 0.0, 0.0),
            (0.0, delta2 * gmu[0], 0.0),
            (0.0, delta2 * x2 * gmu[1], 0.0),
        ]
        return JetTable.from_entries(point, mu, entries, tolerance=1e-12)

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

    def jacobian(X: np.ndarray, mu: float) -> np.ndarray:
        return np.array(_on_floats(derivative, X, mu))

    def in_domain(X: np.ndarray) -> bool:
        x1, x2, s = X
        return (
            x1 > -1e-9
            and x2 > -1e-9
            and s > -min(alpha1, alpha2) * 0.5
            and max(abs(x1), abs(x2), abs(s)) < 50.0
        )

    meta: dict[str, object] = {}
    l1 = 1.0 - 2.0 * lam - alpha1
    l2 = 2.0 * lam + alpha2 - 1.0
    gap = alpha2 - alpha1
    if abs(gap) > 1e-9 and l1 > 0 and l2 > 0:
        meta["hopf_seed"] = [
            (lam + alpha1) ** 2 * l2 / gap,
            (lam + alpha2) ** 2 * l1 / gap,
            lam,
        ]
    return ModelDefinition(
        name="predator_prey",
        rhs=rhs,
        exact_jet=exact_jet,
        jacobian=jacobian,
        in_domain=in_domain,
        metadata=meta,
    )


def _synthetic_nf(params: Mapping[str, float]) -> ModelDefinition:
    """Quadratic field in exact cylindrical normal form.

    dy1 = -omega y2 + a y1 z, dy2 = omega y1 + a y2 z,
    dz = b (y1^2 + y2^2) + c mu + d mu z.
    Planted reduced coefficients: beta2 = a, beta5 = b, gamma5 = c, gamma7 = d.
    """
    a, b, c, d, omega = _require(
        params, ("a", "b", "c", "d", "omega"), "synthetic_nf"
    )
    if omega <= 0:
        raise InvalidParams("synthetic_nf needs omega > 0")
    field = PolynomialField(
        [
            [(-omega, 0, 1, 0, 0), (a, 1, 0, 1, 0)],
            [(omega, 1, 0, 0, 0), (a, 0, 1, 1, 0)],
            [(b, 2, 0, 0, 0), (b, 0, 2, 0, 0), (c, 0, 0, 0, 1), (d, 0, 0, 1, 1)],
        ]
    )
    return field.model("synthetic_nf")


def _toy_cylindrical(params: Mapping[str, float]) -> ModelDefinition:
    """Cartesian realization of the second-order reduced dynamics.

    With r^2 = y1^2 + y2^2 the field is
      dy1 = -omega (1 + eps beta1 z) y2 + y1 G,
      dy2 =  omega (1 + eps beta1 z) y1 + y2 G,
      dz  = eps (mu gamma5 + beta5 r^2)
            + eps^2 (mu (beta1 gamma5 + gamma7) z - (beta1 beta5 - beta6) r^2 z),
    where G = eps beta2 z + eps^2 (mu gamma3 + beta3 r^2 - (beta1 beta2 - beta4) z^2).
    All parameters default to zero except eps = 1.
    """
    names = (
        "omega",
        "beta1",
        "beta2",
        "beta3",
        "beta4",
        "beta5",
        "beta6",
        "gamma3",
        "gamma5",
        "gamma7",
        "eps",
    )
    defaults = dict({n: 0.0 for n in names}, eps=1.0, omega=1.0)
    values = _require(params, names, "toy_cylindrical", defaults)
    omega, b1, b2, b3, b4, b5, b6, g3, g5, g7, eps = values
    if omega <= 0:
        raise InvalidParams("toy_cylindrical needs omega > 0")

    o = omega
    e2 = eps * eps
    field = PolynomialField(
        [
            [
                (-o, 0, 1, 0, 0),
                (-o * eps * b1, 0, 1, 1, 0),
                (eps * b2, 1, 0, 1, 0),
                (e2 * g3, 1, 0, 0, 1),
                (e2 * b3, 3, 0, 0, 0),
                (e2 * b3, 1, 2, 0, 0),
                (-e2 * (b1 * b2 - b4), 1, 0, 2, 0),
            ],
            [
                (o, 1, 0, 0, 0),
                (o * eps * b1, 1, 0, 1, 0),
                (eps * b2, 0, 1, 1, 0),
                (e2 * g3, 0, 1, 0, 1),
                (e2 * b3, 2, 1, 0, 0),
                (e2 * b3, 0, 3, 0, 0),
                (-e2 * (b1 * b2 - b4), 0, 1, 2, 0),
            ],
            [
                (eps * g5, 0, 0, 0, 1),
                (eps * b5, 2, 0, 0, 0),
                (eps * b5, 0, 2, 0, 0),
                (e2 * (b1 * g5 + g7), 0, 0, 1, 1),
                (-e2 * (b1 * b5 - b6), 2, 0, 1, 0),
                (-e2 * (b1 * b5 - b6), 0, 2, 1, 0),
            ],
        ]
    )
    return field.model("toy_cylindrical")


def _classical_hopf(params: Mapping[str, float]) -> ModelDefinition:
    """Classical Hopf normal form with decoupled drift: no equilibrium line."""
    names = ("omega", "sign")
    omega, sign = _require(params, names, "classical_hopf", {"omega": 1.0, "sign": -1.0})
    if omega <= 0:
        raise InvalidParams("classical_hopf needs omega > 0")
    if sign not in (-1.0, 1.0):
        raise InvalidParams("classical_hopf needs sign in {-1, +1}")
    field = PolynomialField(
        [
            [(-omega, 0, 1, 0, 0), (1.0, 1, 0, 1, 0), (sign, 3, 0, 0, 0), (sign, 1, 2, 0, 0)],
            [(omega, 1, 0, 0, 0), (1.0, 0, 1, 1, 0), (sign, 2, 1, 0, 0), (sign, 0, 3, 0, 0)],
            [(1.0, 0, 0, 0, 1)],
        ]
    )
    return field.model("classical_hopf")


_BUILTINS: dict[str, Callable[[Mapping[str, float]], ModelDefinition]] = {
    "predator_prey": _predator_prey,
    "synthetic_nf": _synthetic_nf,
    "toy_cylindrical": _toy_cylindrical,
    "classical_hopf": _classical_hopf,
}


def builtin(name: str, params: Mapping[str, float] | None = None) -> ModelDefinition:
    """Instantiate a builtin model by name."""
    try:
        factory = _BUILTINS[name]
    except KeyError:
        raise UnknownModel(
            f"unknown builtin '{name}'; available: {sorted(_BUILTINS)}"
        ) from None
    return factory(params or {})


def available_builtins() -> tuple[str, ...]:
    return tuple(sorted(_BUILTINS))


def from_config(doc: Mapping[str, object]) -> ModelDefinition:
    """Build a model from a parsed configuration document.

    Two shapes are accepted::

        {"builtin": "predator_prey", "params": {...}}
        {"polynomial": {"y1": [[coef, i, j, k, m], ...], "y2": [...], "z": [...]}}

    Any other top-level keys besides the optional ``name``, ``seed_state``,
    ``mu_grid`` and ``jets`` are rejected.
    """
    allowed = {"builtin", "params", "polynomial", "name", "seed_state", "mu_grid", "jets"}
    unknown = sorted(set(doc) - allowed)
    if unknown:
        raise InvalidParams(f"unknown config keys: {unknown}")
    has_builtin = "builtin" in doc
    has_poly = "polynomial" in doc
    if has_builtin == has_poly:
        raise InvalidParams("config needs exactly one of 'builtin' or 'polynomial'")
    if has_builtin:
        model = builtin(str(doc["builtin"]), doc.get("params") or {})  # type: ignore[arg-type]
    else:
        if "params" in doc:
            raise InvalidParams("'params' only applies to builtin models")
        model = polynomial_model(
            doc["polynomial"], name=str(doc.get("name", "polynomial"))  # type: ignore[arg-type]
        )
    jets_mode = doc.get("jets", "exact")
    if jets_mode not in ("exact", "finite_difference"):
        raise InvalidParams("'jets' must be 'exact' or 'finite_difference'")
    if jets_mode == "finite_difference":
        model = dataclasses.replace(model, exact_jet=None, jacobian=None)
    return model
